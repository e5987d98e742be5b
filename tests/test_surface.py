"""Every package module exports only names it defines or imports, and uses
(or exports) every name it imports, so deleted code leaves nothing stale."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isoreduce"


def _exports(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_exports_defined_and_imports_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
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
    exports = _exports(tree)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert exports <= defined | imported, f"exported, never defined: {sorted(exports - defined - imported)}"
    assert imported <= used | exports, f"imported, never used: {sorted(imported - used - exports)}"
