"""Every package module exports only names it defines or imports, uses (or
exports) every name it imports, and defines no private top-level name that
nothing in the package reads, so deleted code leaves nothing stale. The
package imports only the standard library, and the tests' third-party
imports are exactly the `test` extra of pyproject.toml. Output layouts have
one owner: no module but cli.py imports json or defines to_json_dict."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "isoreduce"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _exports(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _top_level(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The names a module imports and the names it defines, at top level."""
    imported, defined = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return imported, defined


def _package_reads() -> set[str]:
    """Every name read anywhere in the package: loads, attributes and imports."""
    reads = set()
    for path in MODULES:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.add(n.id)
            elif isinstance(n, ast.Attribute):
                reads.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                reads.update(a.name for a in n.names)
    return reads


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exports_defined_and_imports_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, defined = _top_level(tree)
    exports = _exports(tree)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert exports <= defined | imported, f"exported, never defined: {sorted(exports - defined - imported)}"
    assert imported <= used | exports, f"imported, never used: {sorted(imported - used - exports)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_names_read_somewhere(path):
    _, defined = _top_level(ast.parse(path.read_text(encoding="utf-8")))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    unread = private - _package_reads()
    assert not unread, f"private, never read in the package: {sorted(unread)}"


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of the modules a file imports by absolute import, at any depth."""
    names = set()
    for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(n, ast.Import):
            names.update(a.name.split(".")[0] for a in n.names)
        elif isinstance(n, ast.ImportFrom) and n.level == 0:
            names.add(n.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_imports_only_stdlib(path):
    foreign = _absolute_imports(path) - sys.stdlib_module_names
    assert not foreign, f"imports outside the standard library: {sorted(foreign)}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"], ids=lambda p: p.name)
def test_only_cli_serializes(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "json" not in _absolute_imports(path), "imports json"
    assert not any(
        isinstance(n, ast.FunctionDef) and n.name == "to_json_dict" for n in ast.walk(tree)
    ), "defines to_json_dict"


def test_test_extra_matches_test_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    extra = {re.match(r"[\w.-]+", req).group() for req in project["optional-dependencies"]["test"]}
    local = {p.stem for p in TESTS} | {"isoreduce"}
    imported = set().union(*map(_absolute_imports, TESTS)) - sys.stdlib_module_names - local
    assert imported == extra
