"""Functionals, norms, spectral quantities and the summary's decay verdicts.

C^k channels of theta use flat reference derivatives (coordinate partials),
matching the fixed-metric norms in which the decay statements are made.
decay_verdicts judges a recorded series, as a pure function of its records.
"""

from dataclasses import asdict, dataclass
from math import factorial, prod

import numpy as np

from . import flow, riemann, tables
from .g2algebra import G2Structure, flat_reference
from .lattice import FormField, Lattice, derivative_symbol, exterior_derivative

TWO_PI = 2.0 * np.pi
L2_BOUND_SLACK = 1.05  # the L2 envelope's factor over |theta|^2(0) e^(-lambda1 t / 2)


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
    orders 1..3 take 3, 6 and 10 fields instead of 3, 9 and 27. The
    multisets are walked depth first, as nondecreasing tuples of axis
    positions, so at most k_max derivative fields are held at once, and
    each order's weighted squares are added in lexicographic order.
    """
    comp_axes = tuple(range(lattice.ndim_active, data.ndim))
    sq = [np.sum(data * data, axis=comp_axes)] + [0] * k_max

    def visit(field, axes):
        """Add the squares of field = d_axes data, then descend to its partials."""
        k = len(axes)
        if k:
            sq[k] = sq[k] + (factorial(k) // prod(factorial(axes.count(p)) for p in set(axes))
                             * np.sum(field * field, axis=comp_axes))
        if k < k_max:
            for pos in range(axes[-1] if axes else 0, lattice.ndim_active):
                visit(lattice.partial_array(field, lattice.active_axes[pos]), axes + (pos,))

    visit(data, ())
    return tuple(float(np.sqrt(np.max(level))) for level in sq)


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


def decay_verdicts(records, lambda1: float) -> dict:
    """The summary's decay block: the fitted rate of l2_theta and the paper's two verdicts.

    fitted_rate is minus the least-squares slope of log(l2_theta) against t
    over the samples with l2_theta > 0 in the last 60% of their time span,
    which skips the nonlinear transient. With fewer than 10 such samples, or
    times too small to fit, the block holds fitted_rate None and the reason.
    The verdicts: the rate is at least lambda1 / 2, and every sample lies
    under the L2 envelope L2_BOUND_SLACK |theta|^2(0) e^(-lambda1 t / 2).
    """
    positive = [r for r in records if r.l2_theta > 0]
    if not positive:
        return {"fitted_rate": None, "reason": "empty series"}
    ts = np.array([r.t for r in positive], dtype=float)
    logy = np.log(np.array([r.l2_theta for r in positive], dtype=float))
    window = (float(ts[0] + 0.4 * (ts[-1] - ts[0])), float(ts[-1]))
    mask = (ts >= window[0]) & (ts <= window[1])
    ts, logy = ts[mask], logy[mask]
    if ts.size < 10:
        return {"fitted_rate": None, "reason": f"only {ts.size} samples in window (need >= 10)"}
    try:  # below about 1e-154, t * t underflows and polyfit's column scale is 0
        with np.errstate(divide="raise", invalid="raise"):
            coeffs = np.polyfit(ts, logy, 1)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        return {"fitted_rate": None, "reason": f"no least-squares fit: {exc}"}
    ss_res = float(np.sum((logy - np.polyval(coeffs, ts)) ** 2))
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    rate = float(-coeffs[0])
    return {
        "fitted_rate": rate,
        "r_squared": 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot,
        "window": list(window),
        "rate_at_least_half_lambda1": rate >= 0.5 * lambda1,
        "l2_bound_exp_minus_lambda1_t_over_2": all(
            r.l2_theta <= L2_BOUND_SLACK * records[0].l2_theta * np.exp(-0.5 * lambda1 * r.t)
            for r in records),
    }


def diagnostic_snapshot(state: flow.FlowState) -> TimeSeriesRecord:
    """Populate every channel of a TimeSeriesRecord from the current state."""
    structure = state.structure
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
