"""Only checks takes the torsion from nabla phi.

The flow and its snapshot read T = -tau2/2 from the cached d* phi
(riemann.torsion_of). The nabla phi formula, g2algebra.full_torsion of
checks.nabla_phi_of, is the check suite's cross-check of that identity;
nabla phi of forms (checks.covariant_derivative_form) lives in checks too.
"""

import ast
from pathlib import Path

import pytest

import g2flow

PACKAGE = Path(g2flow.__file__).parent
ALLOWED = {"checks"}
NAMES = {"full_torsion", "nabla_phi_of"}


def nabla_phi_torsion_calls(source: str):
    """Lines of every call to full_torsion or nabla_phi_of, bare or as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in NAMES:
                lines.append(node.lineno)
    return sorted(lines)


def test_guard_sees_torsion_calls():
    src = ("t = g2algebra.full_torsion(st, nabla_phi_of(st))\n"
           "f = full_torsion\n"
           "n = riemann.nabla_phi_of(st)\n"
           "t = riemann.torsion_of(st)\n")
    assert nabla_phi_torsion_calls(src) == [1, 1, 3]


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")
                                          if p.stem not in ALLOWED))
def test_no_nabla_phi_torsion_outside_checks(module):
    lines = nabla_phi_torsion_calls((PACKAGE / f"{module}.py").read_text())
    assert lines == [], (f"{module}.py: full_torsion/nabla_phi_of called at lines {lines}; "
                         "closed structures use riemann.torsion_of")
