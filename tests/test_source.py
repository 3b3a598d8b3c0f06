"""Source hygiene, checked by parsing each module with `ast` (no linter is a dependency).

A module uses every name it takes with `from ... import`: `__init__.py`
re-exports its imports and `from __future__ import annotations` changes how
the module compiles, so neither counts. Every function, method, class and
module-level constant is referenced somewhere in the package, so nothing
lives on for the tests alone. And the representation of a map, its
`perturbation` or `conjugator` field, is read only inside `maps.py`.
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


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """`module.name` of each definition no module refers to by name.

    A definition is a function, method or class, or a name assigned at module
    level; a reference is a name or attribute that is read, or a string
    constant (which covers `__all__` and names looked up with getattr).
    Dunder names are exempt: the language calls them.
    """
    defined, referenced = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
    return [
        f"{module}.{name}"
        for module, name in defined
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    ]


def test_finds_an_unreferenced_definition():
    source = (
        "_DEPTH = 3\n_UNUSED = 4\n\nclass A:\n    def __len__(self):\n        return _DEPTH\n\n"
        "    def spare(self):\n        return 0\n\ndef build():\n    return len(A())\n"
    )
    assert _unreferenced({"m": source, "n": "__all__ = ['build']\n"}) == ["m.spare", "m._UNUSED"]


def test_every_definition_is_referenced():
    assert _unreferenced({p.stem: p.read_text() for p in sorted(_PACKAGE.glob("*.py"))}) == []


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
