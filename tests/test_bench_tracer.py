"""The benchmark's tracer wraps package callables by name; every name must
resolve, and every call inside the package must reach a wrapped function
through its module attribute."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import isoreduce
from dgg_expected import BLOCK_KEEP
from isoreduce import cli

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "bench" / "tracer.py"
# __init__.py only re-exports public names for users; the package calls through the others
MODULES = [p for p in sorted((ROOT / "src" / "isoreduce").glob("*.py")) if p.name != "__init__.py"]


def _load_tracer(monkeypatch):
    # read bench/ without leaving a bytecode cache behind in it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(path: str):
    obj = isoreduce
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_traced_names_resolve_on_the_package(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    paths = [path for path, _ in tracer.LAYER_SPANS]
    paths += [f"{owner}.{attr}" for owner, attr, _ in tracer.EXACT_OPS]
    assert paths
    for path in paths:
        assert callable(_lookup(path)), path


def _traced_functions(tracer) -> dict[str, set[str]]:
    """Home module name -> names of the module-level functions the tracer wraps.
    A wrapped method is reached through its class, whatever name the class has."""
    paths = [path for path, _ in tracer.LAYER_SPANS]
    paths += [f"{owner}.{attr}" for owner, attr, _ in tracer.EXACT_OPS]
    homes: dict[str, set[str]] = {}
    for path in paths:
        owner, attr = path.rsplit(".", 1)
        if inspect.ismodule(_lookup(owner)):
            homes.setdefault(owner, set()).add(attr)
    return homes


def _import_time_nodes(tree: ast.Module):
    """Every node evaluated when the module is imported: all but the bodies
    of functions and lambdas (their defaults and decorators do count)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d is not None)
            stack.extend(getattr(node, "decorator_list", []))
        else:
            stack.extend(ast.iter_child_nodes(node))


def _early_bindings(path: Path, homes: dict[str, set[str]]) -> list[str]:
    """Where a module binds a traced function before the tracer can replace it:
    a from-import of the function, or a reference to it at import time."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    here = path.stem
    aliases = {}  # local name -> home module imported under it
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        home = node.module if node.level == 1 else (node.module or "").removeprefix("isoreduce.")
        if node.level == 1 and node.module is None:
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        for a in node.names:
            if a.name in homes.get(home, ()):
                found.append(f"line {node.lineno}: imports {home}.{a.name}")
    for node in _import_time_nodes(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            home = aliases.get(node.value.id)
            if node.attr in homes.get(home, ()):
                found.append(f"line {node.lineno}: binds {home}.{node.attr} at import")
        elif isinstance(node, ast.Name) and node.id in homes.get(here, ()):
            found.append(f"line {node.lineno}: binds {here}.{node.id} at import")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_calls_traced_functions_through_their_module(path, monkeypatch):
    # a function bound by name escapes attribute substitution and zeroes its layer metric
    homes = _traced_functions(_load_tracer(monkeypatch))
    assert homes
    assert not _early_bindings(path, homes)


# (add, mul, div, eval calls, RfMatrix builds) of one traced pass per workload
TRACED_COUNTERS = {
    "dgg-reproduce": (711, 860, 185, 0, 13),
    "synth-hierarchy": (6965, 7663, 761, 0, 20),
    "block-reduce-verify": (1240, 1440, 232, 2782, 4),
}


def test_one_traced_pass_per_workload(tmp_path, monkeypatch, synth_csv):
    # layer_metrics raises unless the self times partition the traced total,
    # which is what breaks when work moves from one span to another
    tracer = _load_tracer(monkeypatch)
    keep = tmp_path / "keep.txt"
    keep.write_text("\n".join(BLOCK_KEEP.split()) + "\n")
    out = str(tmp_path / "out")
    workloads = {
        "dgg-reproduce": [["reproduce"]],
        "synth-hierarchy": [["hierarchy", "--input", str(synth_csv)]],
        "block-reduce-verify": [["reduce", "--keep", str(keep)], ["verify", "--keep", str(keep)]],
    }
    for name, ops in workloads.items():
        pass_tracer = tracer.Tracer()
        with pass_tracer.installed(isoreduce):
            main = pass_tracer.span("cli.main", cli.main)
            for argv in ops:
                assert main([*argv, "--output", out]) == 0, argv
        metrics = tracer.layer_metrics(pass_tracer)
        calls = [metrics[f"exactnum.{op}_calls"] for op in ("add", "mul", "div", "eval")]
        assert (*calls, metrics["netmat.rfmatrix_builds"]) == TRACED_COUNTERS[name], name
