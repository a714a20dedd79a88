"""Periodic fields on a flat 7-torus with up to three active coordinate axes.

Fields are constant along inactive axes, so storage and differentiation are
reduced to the active grid while the fiber algebra stays fully 7-dimensional.
Grid layout is site-major (one grid axis per active coordinate axis) with the
component axes trailing, in lexicographic multi-index order.

Both derivative schemes are one cached (n, n) circulant matrix per
(scheme, n, period), applied along a grid axis by batched matmul
(`derivative_matrix`, `Lattice.partial_array`), or, to roundoff, on a slab
of whole leading-axis rows (`Lattice.partial_rows`).
"""

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import tables

TWO_PI = 2.0 * np.pi

SCHEMES = ("spectral", "fd4")

# OpenBLAS's default single-thread limit on m*n*k of one gemm (see partial_array).
_GEMM_LIMIT = 65536 * 4

# Sites per block of the per-site kernels: G2Structure.from_phi's metric
# and psi; riemann's christoffels (the (7, 7, 7) stack of partials of g)
# and torsion_derivative (nabla T); g2algebra's raise/lower of 3-forms
# (hodge_star and form_inner on 3- and 4-forms), i_phi, project_3form and
# full_torsion; and checks' j_phi, torsion-form solves and nabla phi.
# riemann.curvature_blocks takes dGamma on slabs of as many whole
# leading-axis rows as fit in piece_sites() = SITE_BLOCK // 4 sites, at
# least one (Lattice.row_slabs), and its 7^4-per-site work (Rm) on pieces of
# at most piece_sites() sites of a slab. No per-call temporary then spans
# the grid: from_phi's largest, the (21, 21) cubic table per site, is
# 64 * 441 doubles (0.2 MB), and curvature's (7, 7, 7, 7) is 16 * 2401
# doubles (0.3 MB). Each
# site's arithmetic is the same for any block size. On a 2-CPU Xeon (3-D
# n=8 flow, a snapshot after every step, 10 interleaved runs each), the
# median RK4 step took 0.86 of its whole-grid time with blocks of 64 sites
# and 0.91 with blocks of 32; the peak RSS was 4% above the whole-grid
# code's with 64, and equal to it with 32.
SITE_BLOCK = 64


def piece_sites() -> int:
    """SITE_BLOCK // 4: the most sites of a piece of riemann.curvature_blocks, and of a slab
    of Lattice.row_slabs unless one row holds more."""
    return SITE_BLOCK // 4


def site_blocks(sites: int) -> list:
    """Slices of SITE_BLOCK consecutive sites that cover range(sites); the last may be short."""
    return [slice(start, start + SITE_BLOCK) for start in range(0, sites, SITE_BLOCK)]


def map_site_blocks(kernel, *operands):
    """kernel on each site block of (array, site_ndim) operands; its results stitched.

    The axes before each operand's last site_ndim broadcast once to one
    batch, which is flattened. kernel returns an array or a tuple of arrays
    with the block's sites first; each comes back with the batch's shape.
    """
    batch = np.broadcast_shapes(*(a.shape[:a.ndim - d] for a, d in operands))
    flat = [np.broadcast_to(a, batch + a.shape[a.ndim - d:]).reshape((-1,) + a.shape[a.ndim - d:])
            for a, d in operands]
    sites = len(flat[0])
    outs = None
    for block in site_blocks(sites):
        got = kernel(*(a[block] for a in flat))
        parts = got if isinstance(got, tuple) else (got,)
        if outs is None:
            outs = [np.empty((sites,) + p.shape[1:], p.dtype) for p in parts]
        for out, part in zip(outs, parts):
            out[block] = part
    outs = tuple(out.reshape(batch + out.shape[1:]) for out in outs)
    return outs if isinstance(got, tuple) else outs[0]


def require_number(name, value, low=-math.inf, high=math.inf, integer=False):
    """value if it is an int, or a float unless integer is set, in [low, high]; else ValueError.

    A bool is no number. abs(value) <= sys.float_info.max rejects nan, +-inf
    and an int past the float range without converting it; against
    np.finfo(float).max such an int raises OverflowError.
    """
    if not (isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a finite number'}, "
                         f"got {value!r}")
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low!r}, {high!r}], got {value!r}")
    return value


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
        for ax in axes:
            require_number("active axis", ax, 1, 7, integer=True)
        if not 1 <= len(axes) <= 3:
            raise ValueError("need 1 to 3 active axes")
        if any(a >= b for a, b in zip(axes, axes[1:])):
            raise ValueError(f"active axes must be distinct and sorted, got {axes}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown derivative scheme {self.scheme!r}")
        # n^a sites of Gamma (343 doubles each, a flow's largest whole-grid array)
        # span at most np.intp's range of bytes, or numpy cannot shape the grid.
        n_max = math.floor((np.iinfo(np.intp).max // (343 * 8)) ** (1 / len(axes)))
        n = require_number("points_per_axis", self.points_per_axis, high=n_max, integer=True)
        if self.scheme == "spectral":
            if n < 8 or n % 2:
                raise ValueError("spectral scheme needs even n >= 8")
        elif n < 5:
            raise ValueError("fd4 stencil needs n >= 5")
        require_number("period", self.period, sys.float_info.min)

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

        Off the leading axis, a slab of whole leading-axis rows is data too.

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
        width = _gemm_width(n, shape[i + 1:])
        blocks = (-1, n, math.prod(shape[i + 1:]) // width, width)  # (lines, n, W-blocks, W)
        shifted = np.empty(shape)
        np.subtract(data, data[(slice(None),) * i + (slice(0, 1),)], out=shifted)
        out = np.empty(shape)
        np.matmul(derivative_matrix(self.scheme, n, self.period),
                  shifted.reshape(blocks).transpose(0, 2, 1, 3),
                  out=out.reshape(blocks).transpose(0, 2, 1, 3))
        return out

    def row_slabs(self) -> list:
        """Leading-axis slices: as many whole rows as fit in piece_sites() sites, at least one.

        A 1-D grid of n <= 16 points is one slab; a 2-D grid of n >= 10 and
        any 3-D grid take one row per slab, which riemann.curvature_blocks
        cuts into pieces of piece_sites() sites where it holds more.
        """
        n = self.points_per_axis
        step = max(1, piece_sites() // n ** (self.ndim_active - 1))
        return [slice(top, min(top + step, n)) for top in range(0, n, step)]

    def partial_rows(self, data: np.ndarray, axis: int, rows: slice) -> np.ndarray:
        """partial_array(data, axis)[rows], rows a slice of the leading grid axis, to roundoff.

        Along any other axis this is partial_array of the slab. Along the
        leading axis each row takes its row of derivative_matrix against the
        unshifted lines, one (1, n) @ (n, W) product per W-block, so its
        values do not depend on the slab's other rows (a gemm's rounding
        depends on its row count). There is no shift: it needs every row of
        the grid for each slab, so data constant along the leading axis
        gives roundoff, not exactly 0.0.
        """
        if axis != self.active_axes[0]:
            return self.partial_array(data[rows], axis)
        n = self.points_per_axis
        d = derivative_matrix(self.scheme, n, self.period)[rows, None, None, :]
        lines = data.reshape(n, -1, _gemm_width(n, data.shape[1:])).swapaxes(0, 1)
        return np.matmul(d, lines).reshape(d.shape[:1] + data.shape[1:])

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

