"""The flow-path modules contract with matmul, never with a multi-operand einsum.

np.einsum without optimize runs three or more operands as one unoptimized
c_einsum loop over every index at once; the flow-path modules use batched
matmul or a table gemm instead. checks.py is exempt: its einsums are the
identity suite's independent right-hand sides.
"""

import ast
from pathlib import Path

import pytest

import g2flow

FLOW_PATH_MODULES = ("lattice", "g2algebra", "riemann", "flow", "diagnostics")


def einsum_operand_counts(source: str):
    """(line, operand count) of every `<x>.einsum(...)` or `einsum(...)` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "einsum":
            found.append((node.lineno, len(node.args) - 1))  # minus the subscripts
    return found


def test_guard_sees_multi_operand_einsum():
    src = ("import numpy as np\n"
           "a = np.einsum('ij,jk->ik', x, y)\n"
           "b = np.einsum('ij,jk,kl->il', x, y, z)\n")
    assert einsum_operand_counts(src) == [(2, 2), (3, 3)]


@pytest.mark.parametrize("module", FLOW_PATH_MODULES)
def test_no_einsum_with_three_or_more_operands(module):
    path = Path(g2flow.__file__).parent / f"{module}.py"
    slow = [line for line, n in einsum_operand_counts(path.read_text()) if n >= 3]
    assert slow == [], f"{module}.py: multi-operand einsum at lines {slow}"
