"""The identity suite case by case, the defects its checks must catch, their memory,
and the counter-based generator its inputs come from.

Each defect was caught by a tier-1 restatement of a check's identity, since
deleted; the check must fail under it in the restatement's place. The two
derivative_matrix defects are the same on every grid line, which only the
Stokes check's modes constant along the other axis can see. The three
curvature defects add a term to each block of Rm that curvature_blocks yields,
which breaks antisymmetry in ij, pair symmetry, or the first Bianchi identity
alone.
"""

import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from g2flow import checks, lattice, riemann, tables
from g2flow import g2algebra as g2
from g2flow.lattice import Lattice

NAMES = [name for name, _, _ in checks.CHECKS]


@pytest.fixture(scope="module")
def ctx():
    return checks.SuiteContext(0, 256)


@pytest.mark.parametrize("index", range(len(NAMES)), ids=NAMES)
def test_identity_check_passes(ctx, index):
    result = checks.run_check(ctx, index)
    assert result.passed, result.to_dict()


def _scaled(factor):
    return lambda fn: lambda *args: factor * fn(*args)


def _first_site_dropped(partial_array):
    def dropped(self, data, axis):
        out = partial_array(self, data, axis)
        out[(0,) * self.ndim_active] = 0.0
        return out
    return dropped


def _identity_added(derivative_matrix):
    return lambda scheme, n, period: derivative_matrix(scheme, n, period) + 1e-3 * np.eye(n)


def _one_entry_changed(derivative_matrix):
    def changed(scheme, n, period):
        out = derivative_matrix(scheme, n, period).copy()
        out[0, 1] += 1e-3
        return out
    return changed


def _two_form(*pairs):
    """Compressed 2-form sum of e^ab over the 1-based pairs (a, b), a < b."""
    pos = tables.index_position(2)
    comp = np.zeros(21)
    for a, b in pairs:
        comp[pos[(a - 1, b - 1)]] = 1.0
    return comp


def _rm_term_added(name, term):
    """curvature_blocks with 1e-6 max|Rm| term[i, j, K] added at every site of each block."""
    def mutant(curvature_blocks):
        def changed(gamma, metric, lattice):
            for sites, rm, ric in curvature_blocks(gamma, metric, lattice):
                yield sites, rm + 1e-6 * np.max(np.abs(rm)) * term, ric
        return changed
    mutant.__name__ = name
    return mutant


def _roundoff_scaled(i_phi):
    """i_phi off by 1e-8 relative, which the gap over max(|lhs|, 1) still sees."""
    return _scaled(1 + 1e-8)(i_phi)


E12, E34, OMEGA = _two_form((1, 2)), _two_form((3, 4)), _two_form((1, 2), (3, 4))
# delta_ij e12 is symmetric in ij. e12 (x) e34 is antisymmetric in ij and in kl
# but not pair-symmetric, so it breaks the first Bianchi identity too: the two
# antisymmetries and Bianchi imply pair symmetry. omega (x) omega with
# omega = e12 + e34 has every symmetry but Bianchi, because omega ^ omega != 0.
_IJ_SYMMETRIC = _rm_term_added("ij_symmetric", np.eye(7)[..., None] * E12)
_PAIR_ASYMMETRIC = _rm_term_added(
    "pair_asymmetric", g2.expand_form(E12, 2)[..., None] * E34)
_BIANCHI_BROKEN = _rm_term_added(
    "omega_omega", g2.expand_form(OMEGA, 2)[..., None] * OMEGA)


# (owner, attribute, its mutant, the check that must fail)
DEFECTS = [
    (checks, "j_phi_raw", _scaled(1.001), "j_phi(i_phi(h)) = 4h + 2tr(h) metric"),
    (g2, "i_phi", _scaled(1.001), "|i_phi(h)|^2 = (tr h)^2 + 2 h.h"),
    (g2, "i_phi", _roundoff_scaled, "|i_phi(h)|^2 = (tr h)^2 + 2 h.h"),
    (g2, "_METRIC_SCALE", lambda scale: 1.001 * scale, "|phi|^2 = |psi|^2 = 7"),
    (Lattice, "partial_array", _first_site_dropped, "Stokes on the closed torus"),
    (lattice, "derivative_matrix", _identity_added, "Stokes on the closed torus"),
    (lattice, "derivative_matrix", _one_entry_changed, "Stokes on the closed torus"),
    (riemann, "christoffels", _scaled(0.99), "metric compatibility"),
    (riemann, "christoffels", _scaled(0.99), "Riemann tensor symmetries"),
    (riemann, "curvature_blocks", _IJ_SYMMETRIC, "Riemann tensor symmetries"),
    (riemann, "curvature_blocks", _PAIR_ASYMMETRIC, "Riemann tensor symmetries"),
    (riemann, "curvature_blocks", _BIANCHI_BROKEN, "Riemann tensor symmetries"),
    (riemann, "christoffels", _scaled(0.99), "Ricci symmetry + contracted Bianchi"),
    (riemann, "torsion_of", _scaled(1.01), "scalar curvature = -|T|^2 (closed)"),
    (riemann, "torsion_of", _scaled(1.01), "torsion reconstructs nabla phi"),
]


IDS = [f"{attr}: {name}" for _, attr, _, name in DEFECTS]
# an attribute with two defects for one check is told apart by its mutant's
# name; a lambda mutant keeps the plain id
IDS = [f"{i} ({mutant.__name__.lstrip('_')})" if IDS.count(i) > 1 and mutant.__name__ != "<lambda>"
       else i for i, (_, _, mutant, _) in zip(IDS, DEFECTS)]


@pytest.mark.parametrize("owner, attr, mutant, name", DEFECTS, ids=IDS)
def test_defect_fails_its_check(monkeypatch, owner, attr, mutant, name):
    monkeypatch.setattr(owner, attr, mutant(getattr(owner, attr)))
    result = checks.run_check(checks.SuiteContext(0, 256), NAMES.index(name))
    assert not result.passed and result.error is None, result.to_dict()


# Traced peak of a check, in connections (one whole-grid Gamma of the closed
# structure, 7^3 doubles per site), with the structure, its connection, T
# and nabla phi built. At n_random 256 the checks read, before blocking the
# suite's kernels and after: Riemann symmetries 1.70 and 1.70 (Rm comes per
# slab from riemann.curvature_blocks; 6.2 when the check read a cached Rm;
# 0.45 since it comes in 16-site pieces of one-row slabs),
# nabla phi reconstruction 1.57 and 1.60 (0.10 since it runs on site
# blocks), closed torsion 3.46 and 1.28 (a whole-grid raise of psi and
# (7, 35) tables of phi and psi; 1.30 with the table caches cold and 1.07
# warm, and 1.05 and 0.79 since extract_torsion_forms runs on site blocks),
# full torsion assembly 5.03 and 3.33 (those, a cached connection and phi's
# 7^3 expansion).
PEAK_CONNECTIONS = {
    "Riemann tensor symmetries": 0.6,
    "torsion reconstructs nabla phi": 0.2,
    "closed torsion: skew, -tau2/2, types": 1.15,
    "full torsion = tau-form assembly": 3.75,
}


def _whole_grid_torsion_forms(structure):
    """extract_torsion_forms with its star and type decomposition over the whole grid."""
    phi, psi = structure.phi.data, structure.psi.data
    v3 = g2.hodge_star(lattice.exterior_derivative(structure.phi).data, 4, structure)
    _, v7, tau3 = g2.project_3form(v3, phi, psi, structure)
    star_v7 = g2.hodge_star(v7, 3, structure)
    m1_t = 3.0 * np.swapaxes(tables.apply_table(tables.wedge_table(1, 3), phi), -1, -2)
    tau1 = np.linalg.solve(m1_t @ np.swapaxes(m1_t, -1, -2), m1_t @ star_v7[..., None])[..., 0]
    wedge_psi = tables.apply_table(tables.wedge_table(1, 4), psi)
    rho = (lattice.exterior_derivative(structure.psi).data
           - 4.0 * (wedge_psi @ tau1[..., None])[..., 0])
    tau2 = np.linalg.solve(tables.apply_table(tables.wedge_table(2, 3), phi), rho[..., None])[..., 0]
    return g2.form_inner(v3, phi, 3, structure) / 7.0, tau1, tau2, tau3


def test_torsion_forms_on_site_blocks_equal_whole_grid(ctx):
    # the closed structure's tau2 and a structure that is not closed, whose
    # tau0, tau1 and tau3 do not vanish; every kernel runs on the same blocks
    st, lat = ctx.closed_structure()
    pert = checks._band_limited(lat, 3, checks.Draws(0, 0), n_modes=4, amp=5e-3)
    for structure in (st, g2.G2Structure.from_phi(lattice.FormField(lat, 3, g2.PHI0 + pert.data))):
        td = checks.extract_torsion_forms(structure)
        for got, want in zip((td.tau0, td.tau1, td.tau2, td.tau3), _whole_grid_torsion_forms(structure)):
            assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("name", PEAK_CONNECTIONS)
def test_check_peak_stays_below_its_bound_in_connections(ctx, name):
    st, lat = ctx.closed_structure()
    limit = PEAK_CONNECTIONS[name] * riemann.connection_of(st).nbytes
    riemann.torsion_of(st)
    checks.nabla_phi_of(st)
    tracemalloc.start()
    try:
        result = checks.run_check(ctx, NAMES.index(name))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed, result.to_dict()
    assert peak < limit, f"{name}: traced peak {peak / 2**20:.2f} MiB"


def _traced_peak(fn):
    """tracemalloc's peak over fn(), after one untraced call fills the table caches."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# At 2000 sites, whole-batch evaluation peaked at 10.47 MiB for the star and
# the inner product of 3-forms and for project_3form (one (..., 7, 7, 7)
# expansion and its contractions), and the fixture at 18.5 MiB for 3.33 MiB
# kept (the GL+ pullback's expansion and u = e_i . phi over the batch). On
# blocks of lattice.SITE_BLOCK sites they read 1.67, 0.89, 2.01 and 4.48 MiB.
@pytest.mark.parametrize("kernel, limit_mib", [
    ("hodge_star", 2.0), ("form_inner", 1.5), ("project_3form", 3.0)])
def test_3form_kernel_peak_at_2000_sites(kernel, limit_mib):
    phi, _, m, psi = checks.SuiteContext(0, 2000).pointwise()
    gamma = np.random.default_rng(1).standard_normal(phi.shape)
    run = {"hodge_star": lambda: g2.hodge_star(gamma, 3, m),
           "form_inner": lambda: g2.form_inner(gamma, phi, 3, m),
           "project_3form": lambda: g2.project_3form(gamma, phi, psi, m)}[kernel]
    peak = _traced_peak(run)
    assert peak < limit_mib * 2**20, f"{kernel}: traced peak {peak / 2**20:.2f} MiB"


def test_pointwise_fixture_peak_below_twice_what_it_keeps():
    fixture = checks.SuiteContext(0, 2000).pointwise()
    phi, a, m, psi = fixture
    kept = sum(x.nbytes for x in (phi, a, m.g, m.g_inv, m.vol, psi))
    peak = _traced_peak(lambda: checks.SuiteContext(0, 2000).pointwise())
    assert peak < 2 * kept, f"traced peak {peak / 2**20:.2f} MiB for {kept / 2**20:.2f} MiB kept"


# --- fixture lifetimes ----------------------------------------------------------

def test_released_fixture_is_not_rebuilt():
    ctx = checks.SuiteContext(0, 16)
    ctx.pointwise()
    ctx.release("pointwise")
    with pytest.raises(RuntimeError, match="pointwise was released"):
        ctx.pointwise()
    result = checks.run_check(ctx, NAMES.index("i_phi(metric) = 3 phi"))
    assert not result.passed and "RuntimeError" in result.error


def test_suite_holds_each_fixture_only_while_its_readers_run(monkeypatch):
    # Each builder runs once, and each fixture is alive (weakly referenced,
    # after a collection) from its first reader through its LAST_READER and
    # at no check after it, so the two are never alive together.
    builders = {"pointwise": "_pointwise_batch", "closed_structure": "_closed_lattice_structure"}
    refs = {name: [] for name in builders}
    for name, attr in builders.items():
        build = getattr(checks, attr)

        def counted(*args, build=build, name=name):
            out = build(*args)
            refs[name].append(weakref.ref(out[0]))
            return out
        monkeypatch.setattr(checks, attr, counted)

    def alive():
        gc.collect()
        return {name for name, built in refs.items() if any(r() is not None for r in built)}

    run_check, held = checks.run_check, []  # held[i]: alive before and after check i

    def watched(ctx, index):
        before = alive()
        result = run_check(ctx, index)
        held.append(before | alive())
        return result
    monkeypatch.setattr(checks, "run_check", watched)
    report = checks.run_identity_suite(0, 64)

    assert report["passed"], report["first_failure"]
    assert {name: len(built) for name, built in refs.items()} == {name: 1 for name in builders}
    assert all(len(names) <= 1 for names in held), held
    assert held[NAMES.index("full torsion = tau-form assembly")] == set()
    for name, last in checks.LAST_READER.items():
        assert max(i for i, names in enumerate(held) if name in names) == NAMES.index(last)


# Traced peak of the whole suite at n_random 256, after one untraced run
# fills the table caches, in connections of the closed structure. It read
# 6.60 (17.7 MiB) in the full torsion assembly while the suite held both
# fixtures to its end, and 4.18 (11.2 MiB), in closed torsion beside the
# structure, with each fixture released after its last reader.
def test_suite_peak_in_connections():
    conn = 7 ** 3 * 32 ** 2 * 8  # one whole-grid Gamma of the 2-D n=32 structure
    peak = _traced_peak(lambda: checks.run_identity_suite(0, 256))
    assert peak < 5.0 * conn, f"traced peak {peak / conn:.2f} connections"


# --- the suite's generator and scale ---------------------------------------------

def test_norm_identity_gap_is_relative_to_the_sides(monkeypatch):
    # h of size 1e3 puts |i_phi(h)|^2 near 1e7, whose roundoff exceeds an
    # absolute 1e-10; the gap over max(|lhs|, 1) stays at roundoff. h is no draw.
    n = 64
    h = 1e3 * np.cos(np.arange(n * 49.0)).reshape(n, 7, 7)
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    ctx = checks.SuiteContext(0, n)
    phi, _, m, _ = ctx.pointwise()
    lhs, rhs = checks._norm_identity_sides(h, phi, m)
    assert np.max(np.abs(lhs - rhs)) > checks.POINTWISE_TOL
    monkeypatch.setattr(checks, "_random_symmetric", lambda rng, n: h)
    result = checks.run_check(ctx, NAMES.index("|i_phi(h)|^2 = (tr h)^2 + 2 h.h"))
    assert result.passed, result.to_dict()


def test_draws_repeat_per_seed_and_stream():
    first = checks.Draws(7, 3).uniform(0.0, 1.0, 1000)
    assert np.array_equal(first, checks.Draws(7, 3).uniform(0.0, 1.0, 1000))
    for other in (checks.Draws(7, 4), checks.Draws(8, 3)):
        assert not np.any(first == other.uniform(0.0, 1.0, 1000))


@pytest.mark.parametrize("method, args", [("uniform", (-2.0, 3.0)), ("integers", (-3, 4))])
@pytest.mark.parametrize("n", [7, 100])  # looped words, and one uint64 array
def test_draws_scalar_path_equals_array_path(method, args, n):
    # n scalars, a scalar and an (n - 1) array, and one array of n read the same words
    whole = list(getattr(checks.Draws(5, 1), method)(*args, n))
    singles = checks.Draws(5, 1)
    assert [getattr(singles, method)(*args) for _ in range(n)] == whole
    mixed = checks.Draws(5, 1)
    assert [getattr(mixed, method)(*args)] + list(getattr(mixed, method)(*args, (1, n - 1)).ravel()) == whole


def test_draws_stay_in_range_and_cover_it():
    draws = checks.Draws(0, 0)
    u = draws.uniform(-1.5, 2.5, 100_000)
    assert u.min() >= -1.5 and u.max() < 2.5
    k = draws.integers(-3, 4, 100_000)
    assert k.dtype == np.int64 and set(np.unique(k)) == set(range(-3, 4))
    assert set(np.unique(draws.integers(5, size=1000))) == set(range(5))


def test_centred_draws_have_unit_variance():
    # 1e5 uniforms on [-sqrt 3, sqrt 3]: the mean's sigma is 1/sqrt(n), and
    # the sample variance's is sqrt((E x^4 - 1)/n) with E x^4 = 9/5
    n = 100_000
    x = checks._centred(checks.Draws(0, 0), n)
    assert np.all(np.abs(x) <= 3.0 ** 0.5)
    assert abs(x.mean()) < 5.0 / n ** 0.5
    assert abs(np.mean(x * x) - 1.0) < 5.0 * (0.8 / n) ** 0.5


def test_draws_never_warn():
    # every word wraps mod 2^64; numpy warns on a wrapping uint64 scalar
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 2 ** 64 - 1, 10 ** 30):
            draws = checks.Draws(seed, 2 ** 63)
            draws.uniform(0.0, 1.0, (3, 4))
            draws.uniform()
            draws.integers(0, 10)
            draws.integers(0, 10, 5)
