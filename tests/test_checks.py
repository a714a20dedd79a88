"""The identity suite case by case, the defects its checks must catch, and their memory.

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
# an attribute with two defects for one check is told apart by its mutant
IDS = [f"{i} ({mutant.__name__.lstrip('_')})" if IDS.count(i) > 1 else i
       for i, (_, _, mutant, _) in zip(IDS, DEFECTS)]


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
# (7, 35) tables of phi and psi), full torsion assembly 5.03 and 3.33
# (those, a cached connection and phi's 7^3 expansion).
PEAK_CONNECTIONS = {
    "Riemann tensor symmetries": 0.6,
    "torsion reconstructs nabla phi": 0.2,
    "closed torsion: skew, -tau2/2, types": 2.0,
    "full torsion = tau-form assembly": 3.75,
}


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
