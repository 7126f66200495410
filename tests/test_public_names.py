"""No public name exists that nothing calls: every name in the ``__all__``
of a ``mlscert`` submodule is referenced somewhere in ``src/`` or
``scripts/``, or is one the benchmark's tracer watches.  The sources are
read with ``ast``; nothing is imported."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mlscert"
TRACER = ROOT / "perfbench" / "tracer.py"


def _trees() -> dict:
    files = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
    return {path: ast.parse(path.read_text()) for path in files}


def _referenced(trees) -> set:
    """Every name a source uses: as a name, an attribute or an import."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _exported(trees) -> list:
    """(module, name) for every name in a submodule's ``__all__``."""
    out = []
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                out += [(path.stem, name) for name in ast.literal_eval(node.value)]
    return out


def _watched() -> set:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WATCHED" for t in node.targets
        ):
            return {(layer, attr.split(".")[-1]) for layer, attr in ast.literal_eval(node.value)}
    raise AssertionError(f"no WATCHED tuple in {TRACER}")


TREES = _trees()
REFERENCED = _referenced(TREES)
WATCHED = _watched()


@pytest.mark.parametrize("module,name", _exported(TREES))
def test_public_name_has_a_caller(module, name):
    assert name in REFERENCED or (module, name) in WATCHED, (
        f"mlscert.{module}.{name} is public, but nothing in src/ or scripts/ uses it"
    )
