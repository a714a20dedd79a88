"""Periodic fields on a flat 7-torus with up to three active coordinate axes.

Fields are constant along inactive axes, so storage and differentiation are
reduced to the active grid while the fiber algebra stays fully 7-dimensional.
Grid layout is site-major (one grid axis per active coordinate axis) with the
component axes trailing, in lexicographic multi-index order.

Both derivative schemes are one cached (n, n) circulant matrix per
(scheme, n, period), applied along a grid axis by batched matmul
(`derivative_matrix`, `Lattice.partial_array`).
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import tables

TWO_PI = 2.0 * np.pi

SCHEMES = ("spectral", "fd4")

# OpenBLAS's default single-thread limit on m*n*k of one gemm (see partial_array).
_GEMM_LIMIT = 65536 * 4


def is_number(value, integer: bool = False) -> bool:
    """True for an int, and for a float unless integer is set; False for a bool."""
    return isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)


@lru_cache(maxsize=None)
def derivative_matrix(scheme: str, n: int, period: float) -> np.ndarray:
    """Read-only (n, n) circulant D[j, l] = c[(j - l) mod n] with (D f)_j = f'(x_j).

    spectral (n even): c[m] = (pi/L) (-1)^m cot(pi m/n), c[0] = c[n/2] = 0,
    the derivative of the band-limited interpolant with the Nyquist mode
    zeroed (Trefethen, Spectral Methods in MATLAB, 2000, ch. 3).
    fd4: c[+-1] = -+8/(12h), c[+-2] = +-1/(12h), the centered 4th-order stencil.
    The eigenvalue of D on the Fourier mode exp(2 pi i k j/n) is the DFT of c
    at k, i.e. i times the scheme's symbol.
    """
    m = np.arange(n)
    c = np.zeros(n)
    if scheme == "spectral":
        c[1:] = (np.pi / period) * (-1.0) ** m[1:] / np.tan(np.pi * m[1:] / n)
        c[n // 2] = 0.0
    elif scheme == "fd4":
        h = period / n
        c[[1, -1, 2, -2]] = np.array([-8.0, 8.0, 1.0, -1.0]) / (12.0 * h)
    else:
        raise ValueError(f"unknown derivative scheme {scheme!r}")
    mat = c[(m[:, None] - m[None, :]) % n]
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=None)
def derivative_symbol(scheme: str, n: int, period: float) -> np.ndarray:
    """Read-only symbol sigma(k) of derivative_matrix, k in DFT order.

    D maps exp(i kappa x) to i sigma(k) exp(i kappa x), kappa = 2 pi k / L,
    so sigma is the DFT of D's first column divided by i. In closed form,
    with h = L / n: spectral, sigma = kappa for |k| < n/2 and 0 at the
    Nyquist mode; fd4, sigma = (8 sin(kappa h) - sin(2 kappa h)) / (6 h).
    """
    k = (np.arange(n) + n // 2) % n - n // 2  # 0, 1, ..., then the negative k
    if scheme == "spectral":
        sigma = (TWO_PI / period) * k
        sigma[n // 2] = 0.0
    elif scheme == "fd4":
        kh = TWO_PI * k / n
        sigma = (8.0 * np.sin(kh) - np.sin(2.0 * kh)) / (6.0 * period / n)
    else:
        raise ValueError(f"unknown derivative scheme {scheme!r}")
    sigma.flags.writeable = False
    return sigma


def _gemm_width(n: int, trailing: tuple) -> int:
    """Columns W of each (n, n) @ (n, W) product along a grid axis.

    The longest product of trailing axes with n*n*W <= _GEMM_LIMIT, and at
    least one column.
    """
    width = 1
    for size in reversed(trailing):
        if n * n * width * size > _GEMM_LIMIT:
            break
        width *= size
    return width


@dataclass(frozen=True)
class Lattice:
    """Discretization of the 7-torus: `n` points per active axis, period `L`.

    active_axes uses the coordinate labels 1..7. Inactive axes carry no
    storage and are assigned the fixed period 2*pi, which enters integrals
    as the constant factor (2*pi)^(7-a).
    """

    active_axes: tuple
    points_per_axis: int = 32
    period: float = TWO_PI
    scheme: str = "spectral"

    def __post_init__(self):
        axes = tuple(self.active_axes)
        object.__setattr__(self, "active_axes", axes)
        if not all(is_number(ax, integer=True) for ax in axes):
            raise ValueError(f"active axes must be integers, got {axes}")
        if not 1 <= len(axes) <= 3:
            raise ValueError("need 1 to 3 active axes")
        if len(set(axes)) != len(axes) or any(not 1 <= ax <= 7 for ax in axes):
            raise ValueError(f"active axes must be distinct labels in 1..7, got {axes}")
        if tuple(sorted(axes)) != axes:
            raise ValueError("active axes must be sorted")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown derivative scheme {self.scheme!r}")
        n = self.points_per_axis
        if not is_number(n, integer=True):
            raise ValueError(f"points_per_axis must be an integer, got {n!r}")
        if self.scheme == "spectral":
            if n < 8 or n % 2:
                raise ValueError("spectral scheme needs even n >= 8")
        elif n < 5:
            raise ValueError("fd4 stencil needs n >= 5")
        if not (is_number(self.period) and 0 < self.period < np.inf):
            raise ValueError(f"period must be positive and finite, got {self.period!r}")

    @property
    def ndim_active(self) -> int:
        return len(self.active_axes)

    @property
    def grid_shape(self) -> tuple:
        return (self.points_per_axis,) * self.ndim_active

    @property
    def spacing(self) -> float:
        return self.period / self.points_per_axis

    @property
    def cell_weight(self) -> float:
        """Integration weight per site: h^a times (2*pi)^(7-a) for inactive axes."""
        a = self.ndim_active
        return self.spacing ** a * TWO_PI ** (7 - a)

    def coordinate(self, axis: int) -> np.ndarray:
        """Grid values of coordinate `axis` (1..7), broadcastable to grid_shape."""
        if axis not in self.active_axes:
            return np.zeros((1,) * self.ndim_active)
        i = self.active_axes.index(axis)
        x = self.spacing * np.arange(self.points_per_axis)
        shape = [1] * self.ndim_active
        shape[i] = self.points_per_axis
        return x.reshape(shape)

    def partial_array(self, data: np.ndarray, axis: int) -> np.ndarray:
        """d/dx_axis of gridded data (trailing component axes untouched).

        One code path for both schemes: the circulant derivative_matrix D
        multiplies the grid axis. The first slice along the axis is
        subtracted beforehand (D kills constants), so data that is constant
        along the axis gives exactly 0.0 rather than roundoff.

        The axis is moved next to a block of W trailing entries as a strided
        view (no copy), and np.matmul computes one (n, n) @ (n, W) product
        per block (_gemm_width): about one per site of the other axes, fewer
        components where one site is too much (1-D, 343 components, n >= 32),
        down to one column. One large gemm over the whole array would take
        BLAS's threaded path, whose start-up stalls cost milliseconds per
        call on a busy host.

        Cost: dense D is O(n) work per point, against O(log n) for an FFT.
        Median per call over every axis, in a fresh process on a 2-CPU Xeon,
        against the scipy rfft pair it replaced: 1.6 against 3.5 ms for
        (8, 8, 8, 7, 7, 7) data, 0.05 against 0.26 ms for (8, 8, 8, 35),
        1.7 against 2.7 ms for (64, 64, 35) and 7 against 17 ms for
        (32, 32, 32, 35). It loses at large n, where the blocks narrow:
        18 against 9 ms for (128, 128, 35); 1-D with 343 components breaks
        even at n=128 and costs 3.5 against 1.5 ms at n=256, 17 against
        2.2 ms at n=512 and 80 against 5 ms at n=1024.
        """
        if axis not in self.active_axes:
            return np.zeros_like(data)
        i = self.active_axes.index(axis)
        n = self.points_per_axis
        shape = data.shape
        trailing = shape[i + 1:]
        width = _gemm_width(n, trailing)
        blocks = (n ** i, n, int(np.prod(trailing, dtype=np.int64)) // width, width)
        shifted = np.empty(shape)
        np.subtract(data, data[(slice(None),) * i + (slice(0, 1),)], out=shifted)
        out = np.empty(shape)
        np.matmul(derivative_matrix(self.scheme, n, self.period),
                  shifted.reshape(blocks).transpose(0, 2, 1, 3),
                  out=out.reshape(blocks).transpose(0, 2, 1, 3))
        return out

    def gradient(self, data: np.ndarray) -> np.ndarray:
        """Partials out[..., m, *comp] = partial_array(data, m + 1); 0.0 off the active axes."""
        out = np.zeros(self.grid_shape + (7,) + data.shape[self.ndim_active:])
        for axis in self.active_axes:
            out[(slice(None),) * self.ndim_active + (axis - 1,)] = self.partial_array(data, axis)
        return out

    def integrate(self, values: np.ndarray, vol_density=None) -> float:
        """Riemann sum of a scalar field against vol_density (default 1).

        Includes the (2*pi)^(7-a) factor from the inactive axes; with the
        euclidean metric, unit integrand and L = 2*pi this returns (2*pi)^7.
        """
        if vol_density is not None:
            values = values * vol_density
        return float(np.sum(values) * self.cell_weight)

    def site_mean(self, data: np.ndarray) -> np.ndarray:
        """Mean over grid axes (the harmonic / zero-mode part per component)."""
        a = self.ndim_active
        return data.mean(axis=tuple(range(a)))


def _freeze(data: np.ndarray) -> np.ndarray:
    data = np.ascontiguousarray(data, dtype=np.float64)
    data.flags.writeable = False
    return data


@dataclass(frozen=True)
class FormField:
    """Field of alternating k-covectors, C(7,k) components per site."""

    lattice: Lattice
    degree: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        ncomp = tables.num_components(self.degree)
        expected = self.lattice.grid_shape + (ncomp,)
        if self.data.shape != expected:
            raise ValueError(f"form data shape {self.data.shape}, expected {expected}")
        object.__setattr__(self, "data", _freeze(self.data))

    @classmethod
    def constant(cls, lattice: Lattice, degree: int, components) -> "FormField":
        comp = np.asarray(components, dtype=np.float64)
        data = np.broadcast_to(comp, lattice.grid_shape + comp.shape).copy()
        return cls(lattice, degree, data)

    def replace_data(self, data: np.ndarray) -> "FormField":
        return FormField(self.lattice, self.degree, data)

    def __add__(self, other: "FormField") -> "FormField":
        _check_same(self, other)
        return self.replace_data(self.data + other.data)

    def __sub__(self, other: "FormField") -> "FormField":
        _check_same(self, other)
        return self.replace_data(self.data - other.data)

    def __mul__(self, scalar) -> "FormField":
        return self.replace_data(self.data * scalar)

    __rmul__ = __mul__

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0


def _check_same(a, b):
    if a.lattice is not b.lattice and a.lattice != b.lattice:
        raise ValueError("fields live on different lattices")
    if getattr(a, "degree", None) != getattr(b, "degree", None):
        raise ValueError("degree mismatch")


def exterior_derivative(alpha: FormField) -> FormField:
    """d on compressed k-forms via alternating sums of coordinate partials."""
    k = alpha.degree
    if k >= 7:
        raise ValueError("cannot apply d to a 7-form")
    table = tables.interior_table(k + 1)
    lat = alpha.lattice
    out = np.zeros(lat.grid_shape + (tables.num_components(k + 1),))
    for axis in lat.active_axes:
        out += lat.partial_array(alpha.data, axis) @ table[axis - 1]
    return FormField(lat, k + 1, out)

