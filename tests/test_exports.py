"""Export and import hygiene of the package source, checked with ``ast`` alone.

No lint tool is required: every module's ``__all__`` names only what the
module defines, the package ``__init__`` re-exports only public names, no
module-level import in the package is left unused, and every exception class
of ``errors`` is raised somewhere in the package.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "locclab"
MODULES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def dunder_all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    return None


def top_level_definitions(tree: ast.Module) -> set[str]:
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
    return out


def public_names(module: str) -> set[str]:
    """``__all__`` if the module declares one, else its top-level definitions."""
    tree = MODULES[module]
    declared = dunder_all(tree)
    return set(declared) if declared is not None else top_level_definitions(tree)


def test_modules_found():
    assert {"__init__", "linalg", "worlds", "instruments", "protocols"} <= set(MODULES)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_all_names_are_defined(module):
    declared = dunder_all(MODULES[module]) or []
    assert len(declared) == len(set(declared)), f"{module}.__all__ repeats a name"
    assert set(declared) <= top_level_definitions(MODULES[module])


def test_package_reexports_only_public_names():
    missing = []
    for node in MODULES["__init__"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            public = public_names(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in public]
    assert missing == []


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_no_unused_module_imports(module):
    tree = MODULES[module]
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(dunder_all(tree) or [])
    unused = {name: line for name, line in imported.items() if name not in used}
    assert unused == {}


def test_every_error_class_is_raised():
    defined = {n.name for n in MODULES["errors"].body if isinstance(n, ast.ClassDef)}
    raised = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert defined and defined - raised == set()
