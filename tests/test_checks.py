"""The identity suite case by case, and the defects its checks must catch.

Each defect was caught by a tier-1 restatement of a check's identity, since
deleted; the check must fail under it in the restatement's place.
"""

import pytest

from g2flow import checks, riemann
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


# (owner, attribute, its mutant, the check that must fail)
DEFECTS = [
    (checks, "j_phi_raw", _scaled(1.001), "j_phi(i_phi(h)) = 4h + 2tr(h) metric"),
    (g2, "i_phi", _scaled(1.001), "|i_phi(h)|^2 = (tr h)^2 + 2 h.h"),
    (g2, "_METRIC_SCALE", lambda scale: 1.001 * scale, "|phi|^2 = |psi|^2 = 7"),
    (Lattice, "partial_array", _first_site_dropped, "Stokes on the closed torus"),
    (riemann, "christoffels", _scaled(0.99), "metric compatibility"),
    (riemann, "christoffels", _scaled(0.99), "Riemann tensor symmetries"),
    (riemann, "christoffels", _scaled(0.99), "Ricci symmetry + contracted Bianchi"),
    (riemann, "torsion_of", _scaled(1.01), "scalar curvature = -|T|^2 (closed)"),
    (riemann, "torsion_of", _scaled(1.01), "torsion reconstructs nabla phi"),
]


@pytest.mark.parametrize("owner, attr, mutant, name", DEFECTS,
                         ids=[f"{attr}: {name}" for _, attr, _, name in DEFECTS])
def test_defect_fails_its_check(monkeypatch, owner, attr, mutant, name):
    monkeypatch.setattr(owner, attr, mutant(getattr(owner, attr)))
    result = checks.run_check(checks.SuiteContext(0, 256), NAMES.index(name))
    assert not result.passed and result.error is None, result.to_dict()
