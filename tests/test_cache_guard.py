"""Only g2algebra touches a structure's private cache.

Every other module reads or fills it through G2Structure.cached(key, build),
so the memo rule lives in one place.
"""

import ast
from pathlib import Path

import pytest

import g2flow

PACKAGE = Path(g2flow.__file__).parent
OWNER = "g2algebra"


def cache_attribute_lines(source: str):
    """Lines of every `<x>._cache` attribute access."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "_cache"]


def test_guard_sees_cache_access():
    src = ("cache = structure._cache\n"
           "value = structure.cached('conn', build)\n"
           "structure._cache['curv'] = 1\n")
    assert cache_attribute_lines(src) == [1, 3]


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != OWNER))
def test_no_cache_access_outside_g2algebra(module):
    lines = cache_attribute_lines((PACKAGE / f"{module}.py").read_text())
    assert lines == [], f"{module}.py: ._cache at lines {lines}; use G2Structure.cached"
