"""The identity suite case by case, and the defects its checks must catch.

Each defect was caught by a tier-1 restatement of a check's identity, since
deleted; the check must fail under it in the restatement's place. The two
derivative_matrix defects are the same on every grid line, which only the
Stokes check's modes constant along the other axis can see.
"""

import numpy as np
import pytest

from g2flow import checks, lattice, riemann
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
