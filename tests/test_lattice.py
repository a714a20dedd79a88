"""Lattice fields: differentiation, exterior calculus, integration."""

import numpy as np
import pytest

from g2flow import lattice, tables
from g2flow.g2algebra import PHI0, PSI0, flat_reference, wedge_components
from g2flow.lattice import (FormField, Lattice, derivative_matrix,
                            derivative_symbol, exterior_derivative)

import oracles
from conftest import band_limited_form

TWO_PI = 2.0 * np.pi


# --- construction and validation ---------------------------------------------

def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice((1, 2, 3, 4), 16, TWO_PI)      # too many active axes
    with pytest.raises(ValueError):
        Lattice((0,), 16, TWO_PI)              # axis label out of range
    with pytest.raises(ValueError):
        Lattice((2, 1), 16, TWO_PI)            # unsorted
    with pytest.raises(ValueError):
        Lattice((1,), 15, TWO_PI)              # odd n, spectral
    with pytest.raises(ValueError):
        Lattice((1,), 6, TWO_PI)               # n < 8, spectral
    with pytest.raises(ValueError):
        Lattice((1,), 16, -1.0)                # period
    Lattice((1,), 6, TWO_PI, scheme="fd4")     # fd4 allows smaller even/odd n


def test_site_count_and_weights():
    lat = Lattice((1, 3), 16, 1.0)
    assert lat.grid_shape == (16, 16)
    assert np.isclose(lat.cell_weight, (1.0 / 16) ** 2 * TWO_PI ** 5)


def test_fields_are_immutable():
    lat = Lattice((1,), 8, TWO_PI)
    f = FormField(lat, 2, np.zeros(lat.grid_shape + (21,)))
    with pytest.raises(ValueError):
        f.data[0, 0] = 1.0


# --- partial derivatives ------------------------------------------------------

def test_derivative_of_constant_is_zero():
    lat = Lattice((1, 2), 16, TWO_PI)
    f = FormField.constant(lat, 3, PHI0)
    for axis in range(1, 8):
        assert np.all(lat.partial_array(f.data, axis) == 0.0)


def test_spectral_derivative_exact_on_resolvable_mode():
    lat = Lattice((1,), 32, TWO_PI)
    x = lat.coordinate(1)[..., None]
    df = lat.partial_array(np.sin(TWO_PI * x / lat.period), 1)
    expect = (TWO_PI / lat.period) * np.cos(TWO_PI * x / lat.period)
    assert np.max(np.abs(df - expect)) < 1e-12


def test_inactive_axis_derivative_is_zero(rng):
    lat = Lattice((1, 3), 16, TWO_PI)
    f = band_limited_form(lat, 1, rng)
    for axis in (2, 4, 5, 6, 7):
        assert np.all(lat.partial_array(f.data, axis) == 0.0)


def test_fd4_order_against_analytic_derivative():
    # Richardson order fit on the analytic derivative of a single mode
    errs = []
    ns = (16, 32, 64)
    for n in ns:
        lat = Lattice((1,), n, TWO_PI, scheme="fd4")
        x = lat.coordinate(1)[..., None]
        errs.append(np.max(np.abs(lat.partial_array(np.sin(x), 1) - np.cos(x))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(ns) - 1)]
    assert all(3.8 <= o <= 4.2 for o in orders)
    assert min(orders) >= 3.9


def test_fd4_error_bounded_by_h4():
    n = 32
    lat = Lattice((1,), n, TWO_PI, scheme="fd4")
    x = lat.coordinate(1)[..., None]
    df = lat.partial_array(np.sin(x), 1)
    h = lat.period / n
    # |error| <= h^4/30 for sin (fifth derivative has unit amplitude)
    assert np.max(np.abs(df - np.cos(x))) <= h ** 4 / 30 * 1.05


DERIVATIVE_ORACLES = {"spectral": oracles.fft_partial, "fd4": oracles.fd4_partial}
COMPONENT_SHAPES = ((), (35,), (7, 7), (7, 7, 7))


@pytest.mark.parametrize("period", [TWO_PI, 1.7])
@pytest.mark.parametrize("axes, scheme, n", [
    ((3,), "spectral", 32), ((3,), "spectral", 64), ((3,), "spectral", 256),
    ((3,), "fd4", 7), ((2, 5), "spectral", 16), ((2, 5), "fd4", 8),
    ((1, 4, 7), "spectral", 8), ((1, 4, 7), "fd4", 6),
])
def test_partial_array_matches_oracle(axes, scheme, n, period, rng):
    # every active axis and component shape, against numpy.fft / np.roll;
    # 1-D n=64 and n=256 with 343 components take gemm blocks narrower than
    # one site (49 and 1 columns). gradient stacks the partials in slot
    # m = axis - 1, exactly 0.0 on inactive axes and on constant data.
    lat = Lattice(axes, n, period, scheme)
    oracle = DERIVATIVE_ORACLES[scheme]
    for comp in COMPONENT_SHAPES:
        data = rng.standard_normal(lat.grid_shape + comp)
        grad = lat.gradient(data)
        assert grad.shape == lat.grid_shape + (7,) + comp
        for pos, axis in enumerate(axes):
            got = lat.partial_array(data, axis)
            expect = oracle(data, pos, period)
            assert got.shape == data.shape
            assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
            assert np.array_equal(grad[(slice(None),) * len(axes) + (axis - 1,)], got)
        inactive = [m for m in range(7) if m + 1 not in axes]
        assert np.all(grad[(slice(None),) * len(axes) + (inactive,)] == 0.0)
        assert np.all(lat.gradient(np.full_like(data, 0.7)) == 0.0)


def test_gemm_blocks_stay_under_single_thread_limit():
    # (n, trailing axes) -> W: whole sites while n*n*W fits, then fewer
    # components, down to one column
    cases = {(8, (8, 8, 7, 7, 7)): 8 * 343, (16, (16, 35)): 16 * 35, (32, (7, 7, 7)): 49,
             (64, (7, 7, 7)): 49, (128, (128, 35)): 1, (32, ()): 1}
    for (n, trailing), width in cases.items():
        assert lattice._gemm_width(n, trailing) == width
        assert n * n * width <= lattice._GEMM_LIMIT


@pytest.mark.parametrize("scheme, n", [("spectral", 16), ("fd4", 7)])
def test_partial_exactly_zero_along_constant_axis(scheme, n, rng):
    # varies along the other axes only; given as a broadcast (strided) view
    lat = Lattice((1, 2, 3), n, 1.7, scheme)
    full_shape = lat.grid_shape + (7, 7)
    for pos, axis in enumerate(lat.active_axes):
        shape = list(full_shape)
        shape[pos] = 1
        data = np.broadcast_to(rng.standard_normal(shape), full_shape)
        assert np.all(lat.partial_array(data, axis) == 0.0)
        other = lat.active_axes[(pos + 1) % 3]
        assert np.max(np.abs(lat.partial_array(data, other))) > 0.1


@pytest.mark.parametrize("n", [8, 10, 16])
@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
def test_derivative_matrix_symbol(scheme, n):
    # sin/cos modes |k| < n/2 map to sigma(k) cos/-sigma(k) sin, with sigma(k) = k w
    # (spectral) or (8 sin kh - sin 2kh)/6h (fd4); the Nyquist mode maps to 0
    period = 1.7
    h, w = period / n, TWO_PI / period
    x = h * np.arange(n)
    d = derivative_matrix(scheme, n, period)
    assert not d.flags.writeable
    for k in range(n // 2):
        kx = k * w * x
        sigma = k * w if scheme == "spectral" else (8 * np.sin(k * w * h)
                                                    - np.sin(2 * k * w * h)) / (6 * h)
        assert np.max(np.abs(d @ np.sin(kx) - sigma * np.cos(kx))) <= 1e-13 * n * w
        assert np.max(np.abs(d @ np.cos(kx) + sigma * np.sin(kx))) <= 1e-13 * n * w
        # the eigenvalue on exp(2 pi i k j/n) is the DFT of the first column
        assert abs(np.fft.fft(d[:, 0])[k] - 1j * sigma) <= 1e-13 * n * w
    nyquist = np.cos(n // 2 * w * x)
    assert np.max(np.abs(d @ nyquist)) <= 1e-13 * n * w


@pytest.mark.parametrize("period", [TWO_PI, 1.7])
@pytest.mark.parametrize("scheme, ns", [("spectral", (8, 10, 16, 32, 64)),
                                        ("fd4", (5, 6, 9, 16, 33))])
def test_derivative_symbol_is_dft_of_matrix_column(scheme, ns, period):
    # the closed form equals DFT(first column of D) / i, odd in k, 0 at k = 0
    for n in ns:
        sigma = derivative_symbol(scheme, n, period)
        assert not sigma.flags.writeable
        assert sigma.shape == (n,) and sigma[0] == 0.0
        dft = np.fft.fft(derivative_matrix(scheme, n, period)[:, 0])
        scale = np.max(np.abs(sigma))
        assert np.max(np.abs(dft - 1j * sigma)) <= 1e-13 * scale, (scheme, n)
        assert np.max(np.abs(sigma[1:] + sigma[1:][::-1])) <= 1e-13 * scale
    if scheme == "spectral":
        assert derivative_symbol(scheme, 16, period)[8] == 0.0  # Nyquist


# --- exterior derivative ------------------------------------------------------

def test_d_of_constant_form_is_zero():
    lat = Lattice((1, 2), 16, TWO_PI)
    assert exterior_derivative(FormField.constant(lat, 3, PHI0)).max_norm() == 0.0


def test_d_squared_zero_on_1000_random_forms(rng):
    lat = Lattice((1,), 16, TWO_PI)
    lat2 = Lattice((1, 2), 16, TWO_PI)
    count = 0
    for i in range(1000):
        k = int(rng.integers(0, 6))
        alpha = band_limited_form(lat if i % 2 else lat2, k, rng, n_modes=2)
        dd = exterior_derivative(exterior_derivative(alpha))
        assert dd.max_norm() <= 1e-10 * max(alpha.max_norm(), 1e-300)
        count += 1
    assert count == 1000


def test_d_sign_on_single_mode():
    # d(f dx^1) with f = sin(2 pi x2 / L) is -(2 pi / L) cos(...) dx^1 ^ dx^2
    lat = Lattice((1, 2), 32, TWO_PI)
    x2 = lat.coordinate(2)
    data = np.zeros(lat.grid_shape + (7,))
    data[..., 0] = np.broadcast_to(np.sin(TWO_PI * x2 / lat.period), lat.grid_shape)
    d = exterior_derivative(FormField(lat, 1, data))
    pos = tables.index_position(2)
    expect = -(TWO_PI / lat.period) * np.cos(TWO_PI * x2 / lat.period)
    assert np.max(np.abs(d.data[..., pos[(0, 1)]] - expect)) < 1e-12
    mask = np.ones(21, dtype=bool)
    mask[pos[(0, 1)]] = False
    assert np.max(np.abs(d.data[..., mask])) < 1e-13


def test_leibniz_rule(rng):
    lat = Lattice((1, 2), 16, TWO_PI)
    for k, l in ((1, 1), (1, 2), (2, 2), (0, 3), (2, 3)):
        a = band_limited_form(lat, k, rng)
        b = band_limited_form(lat, l, rng)
        da, db = exterior_derivative(a).data, exterior_derivative(b).data
        ab = FormField(lat, k + l, wedge_components(a.data, k, b.data, l))
        lhs = exterior_derivative(ab).data
        rhs = (wedge_components(da, k + 1, b.data, l)
               + ((-1.0) ** k) * wedge_components(a.data, k, db, l + 1))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(np.max(np.abs(lhs)), 1e-300)


# --- wedge and interior product ----------------------------------------------

def interior_product(x, alpha, k):
    """x . alpha of the vector field x[..., i] = X^i and k-form data alpha, from the table."""
    return (x[..., None, :] @ tables.apply_table(tables.interior_table(k), alpha))[..., 0, :]


def test_wedge_odd_degree_squares_to_zero(rng):
    lat = Lattice((1,), 8, TWO_PI)
    for k in (1, 3):
        a = band_limited_form(lat, k, rng).data
        assert np.max(np.abs(wedge_components(a, k, a, k))) < 1e-14


def test_wedge_basis_case():
    e1 = np.zeros(7)
    e1[0] = 1.0
    e23 = np.zeros(21)
    e23[tables.index_position(2)[(1, 2)]] = 1.0
    expect = np.zeros(35)
    expect[tables.index_position(3)[(0, 1, 2)]] = 1.0
    assert np.allclose(wedge_components(e1, 1, e23, 2), expect)


def test_phi_wedge_psi_is_seven_volumes():
    # brute-force shuffle-sum oracle fixes the value 7
    oracle = oracles.wedge_compressed(PHI0, 3, PSI0, 4)
    assert np.allclose(oracle, [7.0])
    assert np.allclose(wedge_components(PHI0, 3, PSI0, 4), 7.0)


def test_interior_product_basis_and_nilpotence(rng):
    lat = Lattice((1,), 8, TWO_PI)
    e123 = np.zeros(35)
    e123[tables.index_position(3)[(0, 1, 2)]] = 1.0
    e1 = np.zeros(7)
    e1[0] = 1.0
    expect = np.zeros(21)
    expect[tables.index_position(2)[(1, 2)]] = 1.0
    assert np.allclose(interior_product(e1, e123, 3), expect)
    # X . (X . alpha) = 0
    alpha = band_limited_form(lat, 4, rng).data
    xr = rng.standard_normal(lat.grid_shape + (7,))
    assert np.max(np.abs(interior_product(xr, interior_product(xr, alpha, 4), 3))) < 1e-13


@pytest.mark.parametrize("k,l", [(0, 3), (1, 1), (1, 4), (2, 2), (2, 3), (3, 4), (2, 5)])
def test_wedge_matches_shuffle_oracle(rng, k, l):
    lat = Lattice((1, 2), 8, TWO_PI)
    a = rng.standard_normal(lat.grid_shape + (tables.num_components(k),))
    b = rng.standard_normal(lat.grid_shape + (tables.num_components(l),))
    expect = oracles.wedge_compressed(a, k, b, l)
    assert np.max(np.abs(wedge_components(a, k, b, l) - expect)) < 1e-13


@pytest.mark.parametrize("k", range(1, 8))
def test_interior_product_matches_full_tensor_oracle(rng, k):
    lat = Lattice((1, 2), 8, TWO_PI)
    alpha = rng.standard_normal(lat.grid_shape + (tables.num_components(k),))
    x = rng.standard_normal(lat.grid_shape + (7,))
    res = interior_product(x, alpha, k)
    assert np.max(np.abs(res - oracles.interior_compressed(x, alpha, k))) < 1e-13


def test_basis_interior_model_form():
    e1 = np.zeros(7)
    e1[0] = 1.0
    res = interior_product(e1, PHI0, 3)
    expect = np.zeros(21)
    pos = tables.index_position(2)
    expect[pos[(1, 2)]] = 1.0   # e23
    expect[pos[(3, 4)]] = 1.0   # e45
    expect[pos[(5, 6)]] = 1.0   # e67
    assert np.allclose(res, expect)


# --- integration ---------------------------------------------------------------

def test_integrate_unit_volume():
    lat = Lattice((1,), 32, TWO_PI)
    vol = flat_reference(lat).vol
    assert abs(lat.integrate(np.ones(lat.grid_shape), vol_density=vol)
               - TWO_PI ** 7) < 1e-12 * TWO_PI ** 7


def test_integrate_sin_squared_is_half_volume():
    lat = Lattice((1,), 32, TWO_PI)
    f = np.sin(TWO_PI * lat.coordinate(1) / lat.period) ** 2
    assert abs(lat.integrate(f) - 0.5 * TWO_PI ** 7) < 1e-10 * TWO_PI ** 7


def test_integrate_trig_polynomial_against_symbolic_value(rng):
    # only the constant term survives integration over full periods
    lat = Lattice((1, 2), 32, TWO_PI)
    x1, x2 = lat.coordinate(1), lat.coordinate(2)
    c0 = rng.normal()
    data = c0 * np.ones(lat.grid_shape)
    for _ in range(6):
        k1, k2 = rng.integers(-3, 4, 2)
        if k1 == 0 and k2 == 0:
            continue
        data = data + rng.normal() * np.broadcast_to(
            np.cos(k1 * x1 + k2 * x2 + rng.uniform(0, TWO_PI)), lat.grid_shape)
    assert abs(lat.integrate(data) - c0 * TWO_PI ** 7) < 1e-10 * TWO_PI ** 7


def test_integrate_deterministic_repeat(rng):
    lat = Lattice((1, 2), 16, TWO_PI)
    f = band_limited_form(lat, 0, rng).data[..., 0]
    vals = {lat.integrate(f) for _ in range(10)}
    assert len(vals) == 1
