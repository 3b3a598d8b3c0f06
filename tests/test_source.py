"""Source hygiene, checked by parsing each module with `ast` (no linter is a dependency).

A module uses every name it takes with `from ... import`: `__init__.py`
re-exports its imports and `from __future__ import annotations` changes how
the module compiles, so neither counts. Every function, method, class and
module-level constant is referenced somewhere in the package, so nothing
lives on for the tests alone. The same holds one level down: every
defaulted parameter is left out by some call in the package, and every
field of a class is read. And the representation of a map, its
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


# -- parameters and fields that only the tests use ----------------------------------
#
# A default that no call relies on copies a value some caller owns, and a field
# that nothing reads is computed for the tests alone. The readers of a field are
# the package and the benchmark harness in perfbench/, which reads results the
# package hands back.

_READERS = sorted(_PACKAGE.glob("*.py")) + sorted((_PACKAGE.parents[1] / "perfbench").glob("*.py"))


def _unread_fields(fields_from: dict[str, str], readers: list[str]) -> list[str]:
    """`Class.field` of each annotated class-body field that no reader reads, as an
    attribute or as a string constant (which covers getattr and config tables)."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [
        f"{cls.name}.{item.target.id}"
        for source in fields_from.values()
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and item.target.id not in read
    ]


def test_finds_an_unread_field():
    source = (
        "from dataclasses import dataclass\n\n@dataclass\nclass Report:\n    worst: float\n"
        "    mean: float\n    label: str\n\ndef show(r):\n    return r.worst, getattr(r, 'label')\n"
    )
    assert _unread_fields({"m": source}, [source]) == ["Report.mean"]


def test_every_field_is_read():
    assert _unread_fields({p.stem: p.read_text() for p in _MODULES}, [p.read_text() for p in _READERS]) == []


def _unused_defaults(sources: dict[str, str]) -> list[str]:
    """`module.[Class.]function(parameter)` of each defaulted parameter that every call to
    that name in `sources` passes. A call matches by the name it is made through:
    a function or method by its own name, `__init__` by its class's. A call
    with *args or **kwargs passes everything."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passed(call: ast.Call, params: list[str]) -> set[str]:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
            return set(params)
        return set(params[: len(call.args)]) | {k.arg for k in call.keywords}

    unused = []
    for module, tree in trees.items():
        owners = {id(item): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for item in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args]
            defaulted = params[len(params) - len(args.defaults):] if args.defaults else []
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if not defaulted:
                continue
            owner = owners.get(id(fn))
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            if owner and not static:
                params = params[1:]  # self, bound by the call
            params += [a.arg for a in args.kwonlyargs]
            name = owner if fn.name == "__init__" and owner else fn.name
            qualified = f"{module}.{owner}.{fn.name}" if owner else f"{module}.{fn.name}"
            for param in defaulted:
                if all(param in passed(call, params) for call in calls.get(name, [])):
                    unused.append(f"{qualified}({param})")
    return sorted(unused)


def test_finds_a_default_every_call_passes():
    source = (
        "class Walk:\n    def __init__(self, steps, tol=1e-9):\n        self.steps = steps\n\n"
        "    def run(self, x, depth=12, growth=False):\n        return x\n\n"
        "def sample(n, seed=0):\n    return Walk(n, 1e-6).run(n, 12) + Walk(n).run(n, depth=4, growth=True)\n\n"
        "def go():\n    return sample(3, seed=1)\n"
    )
    assert _unused_defaults({"m": source}) == ["m.Walk.run(depth)", "m.sample(seed)"]


def test_every_default_is_relied_on():
    assert _unused_defaults({p.stem: p.read_text() for p in sorted(_PACKAGE.glob("*.py"))}) == []
