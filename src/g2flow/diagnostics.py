"""Functionals, norms, spectral quantities and decay-rate estimation.

C^k channels of theta use flat reference derivatives (coordinate partials),
matching the fixed-metric norms in which the decay statements are made.
"""

from dataclasses import asdict, dataclass
from math import factorial, prod

import numpy as np

from . import flow, riemann, tables
from .g2algebra import G2Structure, flat_reference
from .lattice import FormField, Lattice, derivative_symbol, exterior_derivative

TWO_PI = 2.0 * np.pi


class InsufficientData(Exception):
    """Not enough samples in the fit window."""


class NonPositiveSeries(Exception):
    """Decay fitting needs strictly positive norms."""


@dataclass
class TimeSeriesRecord:
    """One diagnostic snapshot of a flow state."""

    t: float
    l2_theta: float                # squared L2 norm of theta in the flat metric
    ck_theta: tuple                # sup |flat-derivative^k theta|, k = 0..3
    total_volume: float            # integral of sqrt(det g), the Hitchin functional
    torsion_l2: float              # integral of |T|^2 dv_g
    scalar_identity_residual: float  # max |R + |T|^2|
    lambda_max: float              # max (|Rm|^2 + |nabla T|^2)^(1/2)
    harmonic_residual: float       # max |grid mean of theta| per component
    rhs_cross_residual: float      # max |flow's d d* phi - i_phi(h)| / max |phi|

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ck_theta"] = list(self.ck_theta)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TimeSeriesRecord":
        d = dict(d)
        d.pop("hitchin_h", None)  # older series carry this copy of total_volume
        d["ck_theta"] = tuple(d["ck_theta"])
        return cls(**d)


@dataclass
class DecayFit:
    """Least-squares exponential-decay fit of a time series."""

    window: tuple
    fitted_rate: float
    r_squared: float


def total_volume(structure: G2Structure) -> float:
    return structure.lattice.integrate(structure.vol)


def _lowest_exact_mode(lattice: Lattice) -> tuple:
    """(k, sigma(k)^2) of least squared symbol over the modes 1 <= k < n/2 of one axis."""
    n = lattice.points_per_axis
    sq = derivative_symbol(lattice.scheme, n, lattice.period)[1:(n + 1) // 2] ** 2
    k = int(np.argmin(sq))
    return k + 1, float(sq[k])


def lambda1_exact_forms(lattice: Lattice) -> float:
    """First discrete Hodge-Laplacian eigenvalue on exact 3-forms of the flat torus.

    d(beta) built from a Fourier mode k has eigenvalue sum_a sigma(k_a)^2 in
    the scheme's symbol (lattice.derivative_symbol); modes with sigma = 0 give
    d(beta) = 0. So lambda1 is the least sigma(k)^2 over 1 <= k < n/2 on one
    axis: (2 pi / L)^2 for spectral and sigma(1)^2 for fd4 at even n. The fd4
    symbol bends back down towards k = n/2, so at odd n its least value is
    at k = (n - 1)/2.
    """
    return _lowest_exact_mode(lattice)[1]


def flat_l2(lattice: Lattice, data: np.ndarray) -> float:
    """Squared flat L2 norm of a componentwise field."""
    comp_axes = tuple(range(lattice.ndim_active, data.ndim))
    return lattice.integrate(np.sum(data * data, axis=comp_axes))


def ck_channels(lattice: Lattice, data: np.ndarray, k_max: int = 3) -> tuple:
    """Sup-norms of the flat derivative stacks of orders 0..k_max.

    The order-k stack holds d_{a1} ... d_{ak} data for every ordered k-tuple
    of active axes. Flat partials commute, so each multiset of axes is
    differentiated once and its squared norm weighted by the number of
    orderings, k! / prod(alpha_j!) for axis multiplicities alpha_j: in 3-D,
    orders 1..3 take 3, 6 and 10 fields instead of 3, 9 and 27.
    """
    comp_axes = tuple(range(lattice.ndim_active, data.ndim))
    out = [float(np.sqrt(np.max(np.sum(data * data, axis=comp_axes))))]
    level = {(): data}  # nondecreasing tuple of axis positions -> derivative
    for k in range(1, k_max + 1):
        level = {axes + (pos,): lattice.partial_array(field, lattice.active_axes[pos])
                 for axes, field in level.items()
                 for pos in range(axes[-1] if axes else 0, lattice.ndim_active)}
        sq = sum(factorial(k) // prod(factorial(axes.count(p)) for p in set(axes))
                 * np.sum(field * field, axis=comp_axes) for axes, field in level.items())
        out.append(float(np.sqrt(np.max(sq))))
    return tuple(out)


def rayleigh_lowest_mode(lattice: Lattice) -> float:
    """Discrete Rayleigh quotient of the flat Hodge Laplacian on the lowest exact mode.

    The mode is sin(2 pi k x / L) along the first active axis, with k that of
    lambda1_exact_forms.
    """
    reference = flat_reference(lattice)
    axis = lattice.active_axes[0]
    pair = tuple(sorted({1, 2, 3} - {axis}))[:2] if axis <= 3 else (1, 2)
    pos = tables.index_position(2)[tuple(p - 1 for p in pair)]
    beta = np.zeros(lattice.grid_shape + (21,))
    k = _lowest_exact_mode(lattice)[0]
    beta[..., pos] = np.broadcast_to(np.sin(TWO_PI * k / lattice.period
                                            * lattice.coordinate(axis)),
                                     lattice.grid_shape)
    theta = exterior_derivative(FormField(lattice, 2, beta))
    lap = flow.hodge_laplacian(reference, theta)
    num = lattice.integrate(np.sum(lap.data * theta.data, axis=-1))
    den = lattice.integrate(np.sum(theta.data * theta.data, axis=-1))
    return num / den


def fit_decay_rate(series, window=None) -> DecayFit:
    """Least-squares slope of log(l2_theta) vs t; fitted_rate is -slope.

    series is a sequence of (t, l2_theta) pairs; the default window keeps the
    last 60% of samples to skip the nonlinear transient.
    """
    ts = np.array([s[0] for s in series], dtype=float)
    ys = np.array([s[1] for s in series], dtype=float)
    if window is None:
        if ts.size == 0:
            raise InsufficientData("empty series")
        window = (ts[0] + 0.4 * (ts[-1] - ts[0]), ts[-1])
    mask = (ts >= window[0]) & (ts <= window[1])
    ts, ys = ts[mask], ys[mask]
    if ts.size < 10:
        raise InsufficientData(f"only {ts.size} samples in window (need >= 10)")
    if np.any(ys <= 0):
        raise NonPositiveSeries("series must be strictly positive to fit a rate")
    logy = np.log(ys)
    coeffs = np.polyfit(ts, logy, 1)
    fit = np.polyval(coeffs, ts)
    ss_res = float(np.sum((logy - fit) ** 2))
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    r_sq = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return DecayFit(window=(float(window[0]), float(window[1])),
                    fitted_rate=float(-coeffs[0]), r_squared=r_sq)


def diagnostic_snapshot(state: flow.FlowState) -> TimeSeriesRecord:
    """Populate every channel of a TimeSeriesRecord from the current state."""
    structure, reference = state.structure, state.reference
    lat = structure.lattice
    theta = state.theta()

    t_tensor = riemann.torsion_of(structure)
    t_sq = riemann.tensor_norm_sq(t_tensor, structure)
    curv = riemann.curvature_of(structure)

    rhs_hodge = flow.laplacian_phi_hodge(structure)
    rhs_intr = flow.laplacian_phi_intrinsic(structure)
    # max|phi| (about 1) stays put as theta -> 0, where max|Delta phi| would
    # vanish and a roundoff gap over it rise
    cross = (rhs_hodge - rhs_intr).max_norm() / structure.phi.max_norm()

    return TimeSeriesRecord(
        t=float(state.t),
        l2_theta=flat_l2(lat, theta),
        ck_theta=ck_channels(lat, theta),
        total_volume=total_volume(structure),
        torsion_l2=lat.integrate(t_sq, vol_density=structure.vol),
        scalar_identity_residual=float(np.max(np.abs(curv.scalar + t_sq))),
        lambda_max=float(np.max(riemann.lambda_monitor(structure))),
        harmonic_residual=float(np.max(np.abs(lat.site_mean(theta)))),
        rhs_cross_residual=float(cross),
    )
