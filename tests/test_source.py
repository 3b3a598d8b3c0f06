"""Source hygiene, checked by parsing each module with `ast` (no linter is a dependency).

A module uses every name it takes with `from ... import`: `__init__.py`
re-exports its imports and `from __future__ import annotations` changes how
the module compiles, so neither counts. And the representation of a map,
its `perturbation` or `conjugator` field, is read only inside `maps.py`.
"""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anosovlab"
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_from_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_name():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert _unused_from_imports(source) == ["field"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert _unused_from_imports(path.read_text()) == []


_REPRESENTATION = {"perturbation", "conjugator"}


def _representation_reads(source: str) -> list[int]:
    """Lines that read `.perturbation` or `.conjugator` off any object."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in _REPRESENTATION
    )


def test_finds_a_representation_read():
    source = "def bound(f):\n    return f.epsilon * f.perturbation.sup_bound()\n"
    assert _representation_reads(source) == [2]


@pytest.mark.parametrize("path", [p for p in _MODULES if p.name != "maps.py"], ids=lambda p: p.name)
def test_map_representation_stays_in_maps(path):
    assert _representation_reads(path.read_text()) == []
